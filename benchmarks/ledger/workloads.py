"""The ledger's four workloads: seeded inputs, public entry points only.

Every workload is closed loop with one client.  Its request stream is a
pure function of ``--seed``; the runner replays the same requests pass
after pass, timing each one and calibrating between them (see
:mod:`benchmarks.ledger.estimator`).  Nothing in here reads a clock
except ``setup_once``.

Why these four -- each stresses different layers, so that a change to
one layer has a workload that should move and one that should not:

``local_single``
    In-process service, float32 index, one query per request, cache and
    micro-batching off.  ``hnsw`` + ``distance`` do most of the work and
    ``net`` none: the paper's "few ms per query" path.
``local_batch_int8``
    Same topology built with ``quantize="int8"``, 64 queries per
    request.  The same two layers used differently (lockstep batch
    kernels, int8 beam, exact rescore, batched merge): the paper's
    high-throughput regime.  A single-query win that costs the batched
    or quantized path shows here.
``remote_zipf_cached``
    Two searcher subprocesses behind the asyncio fan-out broker with a
    256-entry result cache, single queries drawn from a Zipf stream.
    ``online`` (broker, cache), ``net`` (protocol, client, server) and
    ``core.merge`` do most of the work and ``hnsw`` little.
``build_export``
    Build + export + load of small corpora: the write side of
    ``hnsw`` / ``distance`` / ``segmenters`` / ``storage``.  A query-side
    gain bought with a slower or fatter build shows here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.hnsw.params import HnswParams
from repro.net.fleet import fleet_addresses, launch_fleet, shutdown_fleet
from repro.offline.brute_force import exact_top_k
from repro.offline.recall import recall_at_k
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import load_lanns_index, save_lanns_index

TOP_K = 10
INDEX_PATH = "index"
SEGMENTER = "apd"
#: A run whose recall@10 falls below this is wrong, not slow.
MIN_RECALL = 0.85
#: Queries compared bit-for-bit between the in-process and remote fleets.
PARITY_PROBE = 64


#: Query rows the traced run replays in process and against a live searcher.
REPLAY_ROWS = 64


@dataclass
class LayerInputs:
    """What a workload hands the traced run to probe its layers with."""

    corpus: np.ndarray
    config: LannsConfig
    fs: LocalHdfs
    path: str
    #: Requests in the workload's own shape (rows per request, top_k).
    requests: list

    def replayed(self) -> list:
        """The head of the stream holding ``REPLAY_ROWS`` query rows."""
        rows = self.requests[0].queries.shape[0]
        return self.requests[: max(REPLAY_ROWS // rows, 1)]


# -- seeded inputs -----------------------------------------------------------
def make_corpus(seed: int, rows: int, dim: int, clusters: int = 32) -> np.ndarray:
    """Clustered Gaussians; a pure function of its arguments."""
    rng = np.random.default_rng([int(seed), rows, dim, clusters])
    centers = 2.0 * rng.standard_normal((clusters, dim), dtype=np.float32)
    labels = rng.integers(0, clusters, size=rows)
    noise = rng.standard_normal((rows, dim), dtype=np.float32)
    return np.ascontiguousarray(centers[labels] + noise)


def make_queries(seed: int, corpus: np.ndarray, count: int) -> np.ndarray:
    """Perturbed corpus rows (distinct draws), so every query has near
    neighbours and recall is meaningful."""
    rng = np.random.default_rng([int(seed), count, 7])
    picks = rng.choice(corpus.shape[0], size=count, replace=False)
    noise = rng.standard_normal((count, corpus.shape[1]), dtype=np.float32)
    return np.ascontiguousarray(corpus[picks] + 0.3 * noise)


def zipf_ranks(seed: int, length: int, distinct: int, exponent: float) -> np.ndarray:
    """A Zipf request stream with *exact* rank frequencies.

    Rank ``r`` appears ``round(length * p_r)`` times (largest remainders
    first) and only the order is drawn from the seed, so the hit ratio
    barely moves between seeds while evictions still depend on order.
    """
    weights = 1.0 / np.arange(1, distinct + 1, dtype=np.float64) ** exponent
    expected = length * weights / weights.sum()
    counts = np.floor(expected).astype(np.int64)
    short = length - int(counts.sum())
    counts[np.argsort(-(expected - counts), kind="stable")[:short]] += 1
    ranks = np.repeat(np.arange(distinct, dtype=np.int64), counts)
    np.random.default_rng([int(seed), length, distinct]).shuffle(ranks)
    return ranks


# -- specs -------------------------------------------------------------------
@dataclass(frozen=True)
class ServingSpec:
    """Shape of one serving workload (sizes tuned for the 2-vCPU box)."""

    name: str
    rows: int
    dim: int
    shards: int
    segments: int
    quantize: str
    m: int
    ef_construction: int
    ef: int
    #: Query rows per ``SearchRequest``.
    request_rows: int
    #: Requests per pass.
    requests: int
    #: Calibration samples between two requests: 1 next to a request of
    #: a few ms, more next to a long one (its neighbours are further away
    #: in time, so each has to be a steadier vote).
    calibration_burst: int = 1
    remote: bool = False
    cache_size: int = 0
    #: Distinct queries behind a Zipf stream; 0 = every request distinct.
    zipf_distinct: int = 0
    zipf_exponent: float = 0.0
    #: Order statistic across passes (see the estimator).
    statistic: str = "min"

    def smoke(self) -> "ServingSpec":
        return replace(
            self,
            rows=max(self.rows // 8, 600),
            requests=max(self.requests // 10, 4),
            zipf_distinct=self.zipf_distinct // 10,
        )


@dataclass(frozen=True)
class BuildSpec:
    """Shape of the build workload: each request builds one corpus."""

    name: str
    rows: int
    dim: int
    corpora: int
    segments: int
    m: int
    ef_construction: int
    ef: int
    probe_queries: int
    calibration_burst: int = 4
    statistic: str = "median"

    def smoke(self) -> "BuildSpec":
        return replace(self, rows=self.rows // 4, corpora=2)


SPECS: dict[str, ServingSpec | BuildSpec] = {
    "local_single": ServingSpec(
        name="local_single", rows=8_000, dim=64, shards=1, segments=2,
        quantize="none", m=12, ef_construction=56, ef=64,
        request_rows=1, requests=400,
    ),
    "local_batch_int8": ServingSpec(
        name="local_batch_int8", rows=8_000, dim=64, shards=1, segments=2,
        quantize="int8", m=12, ef_construction=56, ef=64,
        request_rows=64, requests=48, calibration_burst=4, statistic="median",
    ),
    "remote_zipf_cached": ServingSpec(
        name="remote_zipf_cached", rows=2_400, dim=32, shards=2, segments=1,
        quantize="none", m=6, ef_construction=40, ef=10,
        request_rows=1, requests=600, remote=True,
        cache_size=256, zipf_distinct=400, zipf_exponent=0.6,
    ),
    "build_export": BuildSpec(
        name="build_export", rows=500, dim=64, corpora=10, segments=2,
        m=12, ef_construction=56, ef=64, probe_queries=100,
    ),
}


def read_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def exported_bytes(fs: LocalHdfs, path: str) -> int:
    """Bytes on disk under one exported index."""
    root = Path(fs.root) / path
    return sum(item.stat().st_size for item in root.rglob("*") if item.is_file())


def _distances_are_true(
    corpus: np.ndarray, query: np.ndarray, ids: np.ndarray, dists: np.ndarray
) -> bool:
    """Returned distances must be the real distances of the returned ids,
    ascending: an exact-rescore system may miss neighbours, never lie."""
    keep = ids >= 0
    want = np.linalg.norm(
        corpus[ids[keep]].astype(np.float64) - query.astype(np.float64), axis=1
    )
    got = dists[keep]
    return bool(
        np.allclose(got, want, rtol=1e-4, atol=1e-4)
        and np.all(np.diff(got) >= 0)
    )


class Workload:
    """What the runner drives: state every workload keeps, and the hooks
    only some of them need."""

    def __init__(self, spec, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.workdir = Path(workdir)
        #: Searcher subprocesses this workload launched.
        self.fleet: list = []
        self.failed = 0
        self.attempted = 0
        self.notes: list[str] = []
        #: Cache hits / misses / evictions of one pass (same every pass).
        self.counters: dict = {}
        self._reference: list | None = None

    def open(self) -> None:
        """Bring the system to the state the stream is served in."""

    def begin_pass(self) -> None:
        """Reset whatever must not carry over from the previous pass."""

    def pass_counters(self) -> dict:
        """Cache hits / misses / evictions since :meth:`begin_pass`."""
        return {}

    def parity_probe(self) -> None:
        """Cross-check two ways of serving the same index, if there are two."""

    def peak_rss_mib(self) -> float:
        return read_rss_mib() + sum(
            read_rss_mib(member.process.pid)
            for member in self.fleet
            if member.alive()
        )

    def close(self) -> None:
        """Release what :meth:`prepare` started."""


# -- serving workloads ---------------------------------------------------------
class ServingWorkload(Workload):
    """One of the three query-side workloads, driven through
    ``OnlineService.execute(SearchRequest)``."""

    def __init__(self, spec: ServingSpec, seed: int, workdir: Path) -> None:
        super().__init__(spec, seed, workdir)
        self.service: OnlineService | None = None

    # -- untimed preparation ---------------------------------------------------
    def prepare(self) -> dict:
        """Inputs, oracle, index build + export, fleet launch (all untimed;
        the two slow steps are reported as ``raw.*`` for the record)."""
        spec = self.spec
        distinct = spec.zipf_distinct or spec.requests * spec.request_rows
        self.corpus = make_corpus(self.seed, spec.rows, spec.dim)
        self.queries = make_queries(self.seed, self.corpus, distinct)
        self.truth_ids, _ = exact_top_k(self.corpus, self.queries, TOP_K)
        if spec.zipf_distinct:
            self.ranks = zipf_ranks(
                self.seed, spec.requests, spec.zipf_distinct, spec.zipf_exponent
            )
        else:
            self.ranks = np.arange(distinct, dtype=np.int64).reshape(
                spec.requests, spec.request_rows
            )
        self.config = LannsConfig(
            num_shards=spec.shards,
            num_segments=spec.segments,
            segmenter=SEGMENTER,
            hnsw=HnswParams(
                M=spec.m,
                ef_construction=spec.ef_construction,
                ef_search=spec.ef,
                seed=self.seed,
                quantize=spec.quantize,
            ),
            segmenter_sample_size=2000,
            seed=self.seed,
        )
        tick = time.perf_counter()
        self.index = build_lanns_index(self.corpus, config=self.config)
        self.fs = LocalHdfs(self.workdir / "export")
        save_lanns_index(self.index, self.fs, INDEX_PATH)
        prepare_s = time.perf_counter() - tick
        launch_s = 0.0
        if spec.remote:
            tick = time.perf_counter()
            self.fleet = launch_fleet(
                spec.shards,
                root=str(self.fs.root),
                log_dir=self.workdir / "searcher-logs",
            )
            launch_s = time.perf_counter() - tick
            self.service = OnlineService(
                searchers=fleet_addresses(self.fleet),
                async_fanout=True,
                cache_size=spec.cache_size,
            )
        else:
            self.service = OnlineService(cache_size=spec.cache_size)
        self.requests = [
            SearchRequest(self.queries[np.atleast_1d(rows)], TOP_K)
            for rows in self.ranks
        ]
        self.request_ops = np.full(spec.requests, spec.request_rows)
        return {"raw.prepare_s": prepare_s, "raw.fleet_launch_s": launch_s}

    @property
    def num_requests(self) -> int:
        return self.spec.requests

    # -- setup: exported index on disk -> first answered query -------------------
    def setup_once(self) -> float:
        """One deploy cycle on already-running processes; returns seconds
        from ``deploy`` to the first answered query (undeploy untimed)."""
        tick = time.perf_counter()
        self.service.deploy(self.fs, INDEX_PATH)
        response = self.service.execute(self.requests[0])
        elapsed = time.perf_counter() - tick
        self.service.undeploy("default")
        self.attempted += 1
        if not (response.ids[:, 0] >= 0).all():
            self.failed += 1
        return elapsed

    def open(self) -> None:
        self.service.deploy(self.fs, INDEX_PATH)

    # -- the measured stream --------------------------------------------------------
    def begin_pass(self) -> None:
        """Clear the result cache so hit/miss sequences repeat exactly."""
        self.service.cache.clear()
        self._stats_before = self.service.cache.stats.as_dict()

    def run_request(self, position: int):
        """Serve request ``position`` of the stream; returns the response."""
        return self.service.execute(self.requests[position])

    def pass_counters(self) -> dict:
        after = self.service.cache.stats.as_dict()
        return {
            key: after[key] - self._stats_before[key]
            for key in ("hits", "misses", "evictions")
        }

    def end_pass(self, responses: list) -> None:
        """Correctness gate for one pass (untimed).

        The first pass becomes the reference and is checked against the
        oracle (true distances, ascending, fully answered).  Every later
        pass must repeat it bit for bit -- ids, distances, ``SearchCost``
        and cache hit/miss/eviction counts.  Anything else is a failed
        operation.
        """
        counters = self.pass_counters()
        self.attempted += len(responses)
        if self._reference is None:
            self._reference = responses
            self.counters = counters
            for request, response in zip(self.requests, responses):
                ok = response.fully_answered and all(
                    _distances_are_true(self.corpus, query, ids, dists)
                    for query, ids, dists in zip(
                        request.queries, response.ids, response.dists
                    )
                )
                self.failed += not ok
            return
        for want, got in zip(self._reference, responses):
            same = (
                np.array_equal(want.ids, got.ids)
                and np.array_equal(want.dists, got.dists)
                and want.cost == got.cost
            )
            self.failed += not same
        if counters != self.counters:
            self.failed += 1
            self.notes.append(
                f"cache counters changed between passes: "
                f"{self.counters} -> {counters}"
            )

    # -- end-of-run facts -------------------------------------------------------------
    def recall(self) -> float:
        """recall@10 of the reference pass over the full distinct query set."""
        found = np.full((self.queries.shape[0], TOP_K), -1, dtype=np.int64)
        for rows, response in zip(self.ranks, self._reference):
            found[np.atleast_1d(rows)] = response.ids
        asked = np.unique(self.ranks)  # a short Zipf stream may skip ranks
        return recall_at_k(found[asked], self.truth_ids[asked], TOP_K)

    def parity_probe(self) -> None:
        """Remote fleet vs an in-process fleet on the same export: ids and
        distances of a 64-query probe must be bit-identical."""
        if not self.spec.remote:
            return
        probe = SearchRequest(self.queries[:PARITY_PROBE], TOP_K)
        local = OnlineService()
        try:
            local.deploy(self.fs, INDEX_PATH)
            want = local.execute(probe)
        finally:
            local.close()
        self.service.cache.clear()
        got = self.service.execute(probe)
        self.attempted += PARITY_PROBE
        mismatched = int(
            np.sum(
                np.any(want.ids != got.ids, axis=1)
                | np.any(want.dists != got.dists, axis=1)
            )
        )
        self.failed += mismatched
        if mismatched:
            self.notes.append(f"{mismatched} probe rows differ local vs remote")

    def layer_inputs(self) -> LayerInputs:
        """This workload's artifacts, for the traced run's layer probes."""
        return LayerInputs(
            self.corpus, self.config, self.fs, INDEX_PATH, self.requests
        )

    def index_bytes_per_vector(self) -> float:
        return exported_bytes(self.fs, INDEX_PATH) / self.spec.rows

    def close(self) -> None:
        """Always tear the fleet down, even after a failed run."""
        try:
            if self.service is not None:
                self.service.close()
        finally:
            shutdown_fleet(self.fleet)
            self.fleet = []


# -- the build workload ---------------------------------------------------------
class BuildWorkload(Workload):
    """``build_lanns_index`` + ``save_lanns_index`` + ``load_lanns_index``
    per request; one request == one corpus."""

    def prepare(self) -> dict:
        spec = self.spec
        self.corpora = [
            make_corpus(self.seed + 1000 * (position + 1), spec.rows, spec.dim)
            for position in range(spec.corpora)
        ]
        self.probes = [
            make_queries(self.seed, corpus, spec.probe_queries)
            for corpus in self.corpora
        ]
        self.truth = [
            exact_top_k(corpus, probe, TOP_K)[0]
            for corpus, probe in zip(self.corpora, self.probes)
        ]
        self.config = LannsConfig(
            num_shards=1,
            num_segments=spec.segments,
            segmenter=SEGMENTER,
            hnsw=HnswParams(
                M=spec.m,
                ef_construction=spec.ef_construction,
                ef_search=spec.ef,
                seed=self.seed,
            ),
            segmenter_sample_size=2000,
            seed=self.seed,
        )
        self.fs = LocalHdfs(self.workdir / "export")
        self.request_ops = np.full(spec.corpora, spec.rows)
        # One untimed build so setup_once has an export to load.
        tick = time.perf_counter()
        self._build(0)
        return {
            "raw.prepare_s": time.perf_counter() - tick,
            "raw.fleet_launch_s": 0.0,
        }

    @property
    def num_requests(self) -> int:
        return self.spec.corpora

    def _path(self, position: int) -> str:
        return f"{INDEX_PATH}-{position}"

    def _build(self, position: int):
        index = build_lanns_index(self.corpora[position], config=self.config)
        manifest = save_lanns_index(index, self.fs, self._path(position))
        return load_lanns_index(self.fs, self._path(position)), manifest

    def setup_once(self) -> float:
        """Exported index on disk -> first answered query."""
        tick = time.perf_counter()
        index = load_lanns_index(self.fs, self._path(0))
        ids, _ = index.query(self.probes[0][0], TOP_K)
        elapsed = time.perf_counter() - tick
        self.attempted += 1
        self.failed += not len(ids)
        return elapsed

    def run_request(self, position: int):
        """Build, export and load corpus ``position``."""
        return self._build(position)

    def end_pass(self, responses: list) -> None:
        """Builds are deterministic: the exported bytes (manifest checksums)
        and the loaded-back index's answers must repeat exactly."""
        answers = []
        for position, (loaded, manifest) in enumerate(responses):
            ids, dists = loaded.query_batch(self.probes[position], TOP_K)
            answers.append((ids, dists, manifest.checksums))
        self.attempted += len(responses)
        if self._reference is None:
            self._reference = answers
            for position, (ids, dists, _) in enumerate(answers):
                ok = all(
                    _distances_are_true(self.corpora[position], query, row, dist)
                    for query, row, dist in zip(self.probes[position], ids, dists)
                )
                self.failed += not ok
            return
        for want, got in zip(self._reference, answers):
            same = (
                np.array_equal(want[0], got[0])
                and np.array_equal(want[1], got[1])
                and want[2] == got[2]
            )
            self.failed += not same

    def recall(self) -> float:
        found = np.concatenate([ids for ids, _, _ in self._reference])
        return recall_at_k(found, np.concatenate(self.truth), TOP_K)

    def layer_inputs(self) -> LayerInputs:
        """Corpus 0 and its export stand in for "the index" in the probes."""
        return LayerInputs(
            self.corpora[0],
            self.config,
            self.fs,
            self._path(0),
            [SearchRequest(query, TOP_K) for query in self.probes[0]],
        )

    def index_bytes_per_vector(self) -> float:
        total = sum(
            exported_bytes(self.fs, self._path(position))
            for position in range(self.spec.corpora)
        )
        return total / (self.spec.corpora * self.spec.rows)


def make_workload(name: str, seed: int, workdir: Path, *, smoke: bool = False):
    """Instantiate a workload by name (``KeyError`` lists the choices)."""
    spec = SPECS[name]
    if smoke:
        spec = spec.smoke()
    kind = BuildWorkload if isinstance(spec, BuildSpec) else ServingWorkload
    return kind(spec, seed, workdir)
