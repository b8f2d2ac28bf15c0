"""One oracle, one path matrix.

LANNS promises that shards, segments, the perShardTopK budget (Eq. 5-6),
the two merges and the serving tier cost recall only inside each
segment's approximate index and the router: the merge and the transport
cost nothing.  This module checks that once, against one reference per
index and one brute-force oracle, in every cell of a generated matrix:

1. **Every path answers like the reference.**  Ids and distances are
   byte-identical to the cell's reference, ``LannsIndex.query_batch``
   over the whole query pool; and a broker asks each row of exactly the
   shard groups hosting a segment the row routes to (:func:`widths`:
   every group under full occupancy), so pruning is held to the rule
   the shards run, not only to answers it cannot change.  A cold
   broker charges the whole pool the ``SearchCost`` of each shard
   searching all of it.
2. **The reference is right.**  Its recall@10 against
   :func:`~repro.offline.brute_force.exact_top_k` meets ``RECALL_FLOOR``,
   and every distance it returns is the exact float kernel's score of the
   returned id, bit for bit, in ``(distance, id)`` order.  Every cell
   checks its own reference, and ``test_reference`` checks all of
   ``REFERENCES``: each index the factors name, whether or not a cell
   serves it, at each spill fraction of ``ALPHAS`` (its segmenter swapped
   over the one build, as the alpha sweep does).  There the shards asked
   as a :class:`~repro.online.router.Router` plan prunes them answer
   like the index, over exactly :func:`widths` groups per row, and no
   row's answer is worse than at the next narrower alpha.

A cell takes one value of each factor in ``FACTORS``: the index (corpus,
metric, quantize, sharding, segmenter) and the path it is served through
(venue, call, admission, cache, trace, chaos).  ``CELLS`` is a
seeded pairwise covering of the valid product -- every pair of factor
values is served together somewhere -- plus a seeded random slice.
Inside a cell, hypothesis draws only which query rows (none included)
and which seed the cell is asked with, derandomized so a failure
reproduces.  Beneath the cells, :func:`check_one_row_parity` is the
scorer cell of every kind and metric.

To add a path or a factor: add its value to ``FACTORS``, say in
:func:`valid` which cells cannot take it, and serve it in :func:`serve`;
the covering places it.  A new serving path adds a factor value, not a
parity test.  ``test_the_matrix_kills`` plants each bug of ``BUGS`` and
requires the matrix to fail.
"""

from __future__ import annotations

import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.harness import swap_segmenter
from repro.core import index as core_index
from repro.core import merge as merge_module
from repro.core.builder import LannsBuilder, build_lanns_index
from repro.core.config import LannsConfig
from repro.core.merge import empty_part, merge_shard_results_batch
from repro.core.topk import per_shard_top_k
from repro.distance import scorer as scorer_module
from repro.distance.scorer import QuantizedStore, Scorer
from repro.errors import LannsError
from repro.hnsw import index as hnsw_index
from repro.net import server as server_module
from repro.net.chaos import FaultPlan
from repro.net.client import RemoteSearcherClient
from repro.net.server import SearcherServer
from repro.obs.cost import SearchCost
from repro.offline.brute_force import exact_top_k
from repro.offline.querying import query_index_job
from repro.offline.recall import recall_at_k
from repro.online import broker as broker_module
from repro.online import fanout as fanout_module
from repro.online.broker import Broker, BrokerPolicy
from repro.online.cache import QueryResultCache
from repro.online.router import Router, RoutingPlan
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.sparklite.cluster import LocalCluster
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index
from tests.conftest import FAST_HNSW, LANNS_2X2, make_lattice

FACTORS = {
    "corpus": ("clustered", "lattice"),
    "metric": ("euclidean", "cosine", "inner_product"),
    "quantize": ("none", "int8", "pq"),
    "sharding": ("hash", "segment"),
    "segmenter": ("rh", "apd", "rs"),
    # memory: LannsIndex itself; offline: the query job over the export;
    # inline: the export deployed on an in-process fleet; remote: in-thread
    # searcher servers over loopback.
    "venue": ("memory", "offline", "inline", "remote"),
    # single: one query per call (the heap kernels); batch: the drawn
    # rows in one call (heap or array kernels by size); threads: four
    # concurrent clients, each alternating a single query and a pair.
    "call": ("single", "batch", "threads"),
    # micro: the broker's micro-batcher, the one layer that coalesces.
    "admission": ("direct", "micro"),
    # warm: the name first served another index and was redeployed; every
    # other row is asked, then every row (hits and misses in one batch).
    "cache": ("cold", "warm"),
    # traced: every request carries a span tree, searcher spans included.
    "trace": ("untraced", "traced"),
    # faults: each shard group is [a replica under a seeded FaultPlan, a
    # clean one]; the broker fails over and hedges.
    "chaos": ("calm", "faults"),
}
Cell = NamedTuple("Cell", [(name, str) for name in FACTORS])
QUANTIZE = {
    "none": {},
    "int8": {"quantize": "int8", "rescore_k": 64},
    "pq": {"quantize": "pq", "rescore_k": 64, "pq_subspaces": 4},
}
K = 10
#: On the lattice the beam is no wider than the result, so a tie decided
#: differently at the beam boundary shows in the returned ids.
EF = {"clustered": None, "lattice": K}
#: Measured over the indices ``CELLS`` builds: 0.982-1.0 clustered,
#: 0.962-1.0 lattice (ties make an id-exact hit rarer there).  Held at
#: the built alpha and wider: a narrower one trades recall for fan-out.
RECALL_FLOOR = {"clustered": 0.95, "lattice": 0.9}
#: The spill fractions each hyperplane index is asked at (the alpha
#: ablation's sweep); the build's own is ``BUILT_ALPHA``.  Under virtual
#: spill placement does not depend on alpha, so one build serves all.
ALPHAS = (0.0, 0.05, 0.10, 0.15, 0.25)
BUILT_ALPHA = LANNS_2X2.alpha
POOL = 40
ALL_ROWS = list(range(POOL))
#: Ids of the decoy a warm cell's name served before the redeploy.
DECOY = 1_000_000
FLEETS = {
    "plain": {},
    # Every SEARCH a chaotic replica sees fails, sheds or stalls.
    "chaotic": {
        "chaos": FaultPlan(
            reset_rate=0.4, overload_rate=0.3, delay_every=1, delay_s=0.02
        )
    },
}


def valid(cell: Cell) -> bool:
    """Whether the system has the path ``cell`` names: only a broker
    admits, caches, routes, traces and fails over; the query job takes
    batches; micro-batching needs concurrent clients; only searcher
    servers fail; only an ``OnlineService`` redeploys; traced requests
    bypass admission."""
    remote = cell.venue == "remote"
    plain = ("direct", "cold", "untraced", "calm")
    return (
        (
            cell.venue not in ("memory", "offline")
            or (cell.admission, cell.cache, cell.trace, cell.chaos) == plain
        )
        and (cell.venue != "offline" or cell.call == "batch")
        and (
            cell.admission == "direct"
            or (cell.call, cell.trace) == ("threads", "untraced")
        )
        and (cell.chaos == "calm" or remote)
        and (cell.cache == "cold" or cell.venue in ("inline", "remote"))
    )


def generate(seed: int = 31, extra: int = 6) -> list[Cell]:
    """A greedy pairwise covering of the valid cells, then ``extra``
    random others, all drawn in one seeded order."""
    grid = [
        cell
        for cell in map(Cell._make, itertools.product(*FACTORS.values()))
        if valid(cell)
    ]
    sizes = [len(values) for values in FACTORS.values()]
    codes = np.array(
        [[FACTORS[name].index(v) for name, v in zip(Cell._fields, cell)] for cell in grid]
    )
    columns = list(itertools.combinations(range(len(sizes)), 2))
    offsets = np.cumsum([0] + [sizes[i] * sizes[j] for i, j in columns])
    pairs = np.stack(
        [offsets[n] + codes[:, i] * sizes[j] + codes[:, j] for n, (i, j) in enumerate(columns)],
        axis=1,
    )
    uncovered = np.zeros(offsets[-1], dtype=bool)
    uncovered[pairs] = True  # only pairs some valid cell can serve
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(grid))
    chosen: list[int] = []
    while uncovered.any():
        chosen.append(int(order[np.argmax(uncovered[pairs[order]].sum(axis=1))]))
        uncovered[pairs[chosen[-1]]] = False
    chosen += rng.choice(np.setdiff1d(order, chosen), size=extra, replace=False).tolist()
    return [grid[i] for i in chosen]


CELLS = generate()
#: Every index the factors name, at each alpha its segmenter has (the
#: random segmenter routes every query everywhere): promise 2 holds for
#: each reference, not only for those a cell serves.
INDEX = list(FACTORS)[:5]
REFERENCES = [
    (
        Cell(*(values[0] for values in FACTORS.values()))._replace(
            **dict(zip(INDEX, index))
        ),
        alpha,
    )
    for index in itertools.product(*(FACTORS[name] for name in INDEX))
    for alpha in (ALPHAS if index[-1] != "rs" else (BUILT_ALPHA,))
]
SCORER_CELLS = list(itertools.product(("float", "int8", "pq"), FACTORS["metric"]))


class World:
    """What the cells share: indices and their exports (built on first
    use), the exact kernel and the oracle, and two in-thread fleets."""

    def __init__(self, root, corpora: dict, queries: dict) -> None:
        self.fs = LocalHdfs(root)
        self.corpora, self.queries = corpora, queries
        self._built: dict = {}
        self.fleets = {
            role: [
                SearcherServer(
                    SearcherNode(shard), root=str(self.fs.root), **options
                ).start_in_thread()
                for shard in range(2)
            ]
            for role, options in FLEETS.items()
        }

    def _once(self, key, make):
        if key not in self._built:
            self._built[key] = make()
        return self._built[key]

    def index(self, cell: Cell, offset: int = 0, alpha: float = BUILT_ALPHA):
        def build():
            config = replace(
                LANNS_2X2,
                sharding=cell.sharding,
                segmenter=cell.segmenter,
                metric=cell.metric,
                hnsw=replace(FAST_HNSW, **QUANTIZE[cell.quantize]),
            )
            data = self.corpora[cell.corpus]
            return build_lanns_index(data, np.arange(len(data)) + offset, config=config)

        def swap():
            """The build routed at ``alpha``: its segmenter refit on the
            same sample and seed, so only the spill bands move."""
            built, data = self.index(cell, offset), self.corpora[cell.corpus]
            config = replace(built.config, alpha=alpha)
            segmenter = LannsBuilder(config).learn_segmenter(data)
            placed = built.segmenter.route_data_batch(data)
            assert segmenter.route_data_batch(data) == placed
            return swap_segmenter(built, segmenter)

        if alpha != BUILT_ALPHA:
            return self._once(("index", *cell[:5], offset, alpha), swap)
        return self._once(("index", *cell[:5], offset), build)

    def export(self, cell: Cell, offset: int = 0) -> str:
        path = "-".join(("idx", *cell[:5], str(offset)))

        def save():
            save_lanns_index(self.index(cell, offset), self.fs, path)
            return path

        return self._once(path, save)

    def exact(self, cell: Cell) -> Scorer:
        def make():
            scorer = Scorer(cell.metric, self.corpora[cell.corpus].shape[1])
            scorer.add(self.corpora[cell.corpus])
            return scorer

        return self._once(("exact", cell.corpus, cell.metric), make)

    def oracle(self, cell: Cell) -> np.ndarray:
        data, queries = self.corpora[cell.corpus], self.queries[cell.corpus]
        return self._once(
            ("oracle", cell.corpus, cell.metric),
            lambda: exact_top_k(data, queries, K, metric=cell.metric)[0],
        )

    def close(self) -> None:
        for servers in self.fleets.values():
            for server in servers:
                server.stop()


@pytest.fixture(scope="module")
def world(tmp_path_factory, clustered_data, clustered_queries):
    rng = np.random.default_rng(5)
    half_lattice = (rng.integers(-2, 3, size=(POOL, 6)) / 2.0).astype(np.float32)
    built = World(
        tmp_path_factory.mktemp("matrix"),
        {"clustered": clustered_data, "lattice": make_lattice()},
        {"clustered": clustered_queries[:POOL], "lattice": half_lattice},
    )
    yield built
    built.close()


def widths(index, queries: np.ndarray) -> list[int]:
    """Per row, how many shards host a segment the row routes to."""
    hosted = np.array([shard.segment_sizes for shard in index.shards]) > 0
    routes = index.segmenter.route_query_batch(queries)
    return [int(hosted[:, list(route)].any(axis=1).sum()) for route in routes]


def reference(
    world: World, cell: Cell, alpha: float = BUILT_ALPHA
) -> tuple[np.ndarray, np.ndarray]:
    """The cell's reference answers for the whole pool, after checking
    promise 2 on them."""
    index = world.index(cell, alpha=alpha)
    queries, ef = world.queries[cell.corpus], EF[cell.corpus]
    ids, dists = index.query_batch(queries, K, ef=ef)
    recall = recall_at_k(ids, world.oracle(cell), K)
    floor = RECALL_FLOOR[cell.corpus] if alpha >= BUILT_ALPHA else 0.0
    assert recall >= floor, (cell, alpha, recall)
    scorer = world.exact(cell)
    prepared = scorer.prepare_queries(queries)
    for row, (row_ids, row_dists) in enumerate(zip(ids, dists)):
        real = row_ids >= 0
        reduced = scorer.score_pairs(prepared[row : row + 1], None, row_ids[real])
        exact = scorer.to_true(reduced.astype(np.float64))
        assert row_dists[real].tobytes() == exact.tobytes(), (cell, row)
        ranked = list(zip(row_dists[real].tolist(), row_ids[real].tolist()))
        assert ranked == sorted(ranked), (cell, row)
    return ids, dists


def pruned(index, queries: np.ndarray, ef) -> tuple:
    """``(plan, ids, dists)``: ``index``'s shards asked as a broker that
    prunes asks them -- each only the rows its :class:`Router` plan sends
    it, padding for the rest -- and merged."""
    sizes = [shard.segment_sizes for shard in index.shards]
    plan = Router(index.segmenter, sizes).plan(queries)
    budget = index.config.per_shard_budget(K)
    parts = []
    for shard_id, shard in enumerate(index.shards):
        part = empty_part(len(queries), budget)
        if shard_id in plan.shard_rows:
            rows = plan.shard_rows[shard_id]
            found = shard.search_batch(queries[rows], budget, ef=ef)
            part[0][rows], part[1][rows] = found
        parts.append(part)
    return (plan, *merge_shard_results_batch(parts, K))


def asker(single, batch, call: str):
    """``ask(queries, seed)`` in the cell's call shape: one batch, one
    query at a time, or four client threads each alternating a single
    query with a batch of two.  A single answer's row is padded back to
    ``(K,)`` like a batch's."""

    def ask(queries: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
        if call == "batch":
            return batch(queries)
        ids, dists = empty_part(len(queries), K)
        step = 1 if call == "single" else 3

        def answer(rows) -> None:
            for start in range(0, len(rows), step):
                (one, *pair) = rows[start : start + step]
                found_ids, found_dists = single(queries[one])
                ids[one, : len(found_ids)] = found_ids
                dists[one, : len(found_dists)] = found_dists
                if pair:
                    ids[pair], dists[pair] = batch(queries[pair])

        order = np.random.default_rng(seed).permutation(len(queries))
        if call == "single":
            answer(order)
        else:
            with ThreadPoolExecutor(4) as clients:
                list(clients.map(answer, [order[t::4] for t in range(4)], timeout=120))
        return ids, dists

    return ask


@contextlib.contextmanager
def serve(world: World, cell: Cell):
    """Serve the cell's index through the cell's path; yields
    ``run(rows, seed, check)``, which asks the pool's ``rows`` and hands
    ``check(rows asked, ids, dists)`` every pass, then checks the path
    really was taken."""
    index, ef = world.index(cell), EF[cell.corpus]
    pool = world.queries[cell.corpus]
    if cell.venue == "memory":
        ask = asker(
            lambda q: index.query(q, K, ef=ef),
            lambda q: index.query_batch(q, K, ef=ef),
            cell.call,
        )
        yield lambda rows, seed, check: check(rows, *ask(pool[rows], seed))
        return
    if cell.venue == "offline":
        cluster, path = LocalCluster(fs=world.fs), world.export(cell)

        def job(rows, seed, check):
            found = query_index_job(cluster, world.fs, path, pool[rows], K, ef=ef)
            check(rows, found.ids, found.dists)

        yield job
        return
    name, faults = "-".join(cell), cell.chaos == "faults"
    clean = world.fleets["plain"]

    def group(shard: int) -> list[str]:
        chaotic = [world.fleets["chaotic"][shard].address] if faults else []
        return chaotic + [clean[shard].address]

    if faults:  # each cell meets the plan's schedule from its start
        for server in world.fleets["chaotic"]:
            server.chaos = FaultPlan.parse(server.options.chaos)
    policy = BrokerPolicy(
        max_batch=8 if cell.admission == "micro" else 1,
        hedge_after_s=0.01 if faults else None,
        request_timeout_s=30.0,
        trace_sample_rate=float(cell.trace == "traced"),
    )
    broker = None
    service = OnlineService(
        searchers=[group(0), group(1)] if cell.venue == "remote" else None,
        cache_size=256 if cell.cache == "warm" else 0,
        rpc_retries=0 if faults else 2,  # a fault is the sibling's to absorb
        policy=policy,
    )

    served = index  # whose routes and occupancy the broker answers with

    def redeploy(target: Cell, offset: int = 0) -> None:
        nonlocal broker, served
        if name in service.brokers:
            service.undeploy(name)
        broker = service.deploy(world.fs, world.export(target, offset), index_name=name)
        served = world.index(target, offset)

    def single(query):
        response = broker.execute(SearchRequest(query, K, name, ef))
        return response.ids[0], response.dists[0]

    def batch(queries):
        response = broker.execute(SearchRequest(queries, K, name, ef))
        assert response.fully_answered
        assert response.shards_routed.tolist() == widths(served, queries), cell
        if len(queries) == POOL and cell.cache == "cold" and response.cost is not None:
            whole = SearchCost()  # a cost sums over rows, however they are grouped
            for shard in index.shards:
                shard.search_batch(pool, index.config.per_shard_budget(K), ef=ef, cost=whole)
            assert response.cost == whole.as_dict(), cell
        return response.ids, response.dists

    ask = asker(single, batch, cell.call)

    def run(rows: list[int], seed: int, check) -> None:
        counted = 0 if broker is None else broker.tally.snapshot().get("queries_served", 0)
        if cell.cache == "warm":
            redeploy(cell._replace(quantize="none", sharding="hash"), DECOY)
            ask(pool[rows], seed)  # the decoy's answers, cached under this name
            redeploy(cell)
            # Scaled rows route elsewhere: their answers must not be a
            # hit for the rows themselves.
            batch(2 * pool[rows])
            # Every other row first: then the warm pass mixes hits and misses.
            check(rows[::2], *ask(pool[rows[::2]], seed))
        check(rows, *ask(pool[rows], seed))
        if rows:
            if cell.call == "single":  # ``single`` hides the fan-out
                batch(pool[rows])
            stats = broker.stats()
            assert cell.cache == "cold" or stats["cache"]["hits"] >= len(rows[::2])
            assert (
                cell.admission != "micro"
                or stats["microbatch"]["rows_executed"] >= len(rows)
            )
            assert cell.trace == "untraced" or stats["tracer"]["kept"] > 0
            # Each row asked is counted once, however many threads ask.
            asked = len(rows) * (1 + (cell.call == "single"))
            assert cell.cache == "warm" or stats["counts"]["queries_served"] - counted == asked

    try:
        if cell.cache == "cold":
            redeploy(cell)
        yield run
        if faults:
            counts = broker.stats()["counts"]
            assert counts.get("failovers", 0) + counts.get("hedges", 0) >= 1
    finally:
        if name in service.brokers:
            service.undeploy(name)
        service.close()


def check_cell(world: World, cell: Cell, drive) -> None:
    """Both promises for ``cell``; ``drive(probe)`` calls
    ``probe(rows, seed)`` once per draw."""
    want = reference(world, cell)
    with serve(world, cell) as run:

        def check(rows: list[int], *got: np.ndarray) -> None:
            for mine, theirs in zip(got, want):
                theirs = theirs[rows]
                assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), cell
                assert mine.tobytes() == theirs.tobytes(), (cell, rows)

        drive(lambda rows, seed: run(rows, seed, check))


@pytest.mark.parametrize(
    "cell, alpha",
    REFERENCES,
    ids=["-".join((*cell[:5], f"a{alpha}")) for cell, alpha in REFERENCES],
)
def test_reference(world, cell, alpha):
    ids, dists = reference(world, cell, alpha)
    index, queries = world.index(cell, alpha=alpha), world.queries[cell.corpus]
    plan, routed_ids, routed_dists = pruned(index, queries, EF[cell.corpus])
    assert plan.routed_counts.tolist() == widths(index, queries), (cell, alpha)
    assert routed_ids.tobytes() == ids.tobytes(), (cell, alpha)
    assert routed_dists.tobytes() == dists.tobytes(), (cell, alpha)
    if cell.segmenter != "rs" and alpha != ALPHAS[0]:
        # Routes nest as alpha grows, so every k-th distance can only fall.
        narrower = ALPHAS[ALPHAS.index(alpha) - 1]
        _, narrower_dists = world.index(cell, alpha=narrower).query_batch(
            queries, K, ef=EF[cell.corpus]
        )
        assert (dists <= narrower_dists).all(), (cell, alpha, narrower)


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_path(world, cell):
    def drive(probe):
        @settings(max_examples=2, deadline=None, derandomize=True, database=None)
        @given(
            st.lists(st.integers(0, POOL - 1), unique=True, max_size=POOL),
            st.integers(0, 2**16),
        )
        @example(ALL_ROWS, 0)
        @example([], 0)
        def answers_like_the_reference(rows, seed):
            probe(rows, seed)

        answers_like_the_reference()

    check_cell(world, cell, drive)


def check_one_row_parity(kind, metric, dim, pairs, lattice, seed):
    """``score_pairs(q[None], <not read>, ids, q_sq)`` is, bit for bit,
    the same pairs scored from wherever ``q`` sits in a 2-, 7- or 64-row
    batch -- for the float scorer and both compressed views, with and
    without ``query_sq``.  ``lattice`` draws small integers, so equal
    distances (and exact zeros) are the common case, not the rare one.
    The serving path scores a lockstep group of one row through its own
    branch of ``scorer._gather_dot``; micro-batching decides at run time
    whether a query is that row or one of many."""
    rng = np.random.default_rng(seed)

    def draw(rows):
        if lattice:
            return rng.integers(-2, 3, size=(rows, dim)).astype(np.float32)
        return rng.standard_normal((rows, dim)).astype(np.float32)

    scorer = Scorer(metric, dim)
    scorer.add(draw(48))
    store = None if kind == "float" else QuantizedStore(scorer, kind)
    prepared = scorer.prepare_queries(draw(64))
    ids = rng.integers(0, len(scorer), size=pairs)

    def score(batch, query_rows, some_ids, with_sq):
        who = scorer if store is None else store.view(batch)
        query_sq = scorer.query_sq_norms(batch) if with_sq else None
        return who.score_pairs(batch, query_rows, some_ids, query_sq)

    for batch_rows in (2, 7, 64):
        batch = prepared[:batch_rows]
        query_rows = rng.integers(0, batch_rows, size=pairs)
        for with_sq in (True, False):
            full = score(batch, query_rows, ids, with_sq)
            assert full.dtype == np.float32
            for row in np.unique(query_rows):
                mine = query_rows == row
                zeros = np.zeros(int(mine.sum()), dtype=np.int64)
                for unread in (None, zeros):  # the kernels' / the ledger's
                    alone = score(batch[row : row + 1], unread, ids[mine], with_sq)
                    assert alone.tobytes() == full[mine].tobytes(), (
                        kind, metric, dim, pairs, batch_rows, int(row), with_sq,
                    )


@pytest.mark.parametrize("kind, metric", SCORER_CELLS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 130), st.integers(1, 80), st.booleans(), st.integers(0, 2**16))
def test_scorer(kind, metric, dim, pairs, lattice, seed):
    check_one_row_parity(kind, metric, dim, pairs, lattice, seed)


def _flip_ties(batch_top_k):
    # id -> -id - 2 reverses the id order and keeps the -1 padding.
    def flipped(dists, ids, k):
        out_ids, out_dists = batch_top_k(dists, -np.asarray(ids) - 2, k)
        return -out_ids - 2, out_dists

    return flipped


def _gemv_one_row(gather_dot):
    def planted(data, ids, query_side, query_rows, query_const=None):
        if query_side.shape[0] != 1:
            return gather_dot(data, ids, query_side, query_rows, query_const)
        return data.take(ids, axis=0).astype(np.float32) @ query_side[0], query_const

    return planted


def _gemv_bias(init):
    def planted(self, store, prepared):
        init(self, store, prepared)
        bias = prepared @ store.codec.offset  # a BLAS gemv: rounds by row count
        if store.scorer._is_euclidean:
            self._q_const = np.einsum("bd,bd->b", prepared, prepared) - 2.0 * bias
        elif store.scorer._is_cosine:
            self._q_const = 1.0 - bias
        else:
            self._q_const = -bias

    return planted


class _DropsLast:
    """A segmenter whose every query route loses its last segment."""

    def __init__(self, segmenter) -> None:
        self.segmenter = segmenter

    def route_query_batch(self, queries):
        return [route[:-1] for route in self.segmenter.route_query_batch(queries)]


def _numpy_cost(observed_search):
    def planted(node, call, recorder=None):
        ids, dists, cost = observed_search(node, call, recorder)
        return ids, dists, cost and {k: np.int64(v) for k, v in cost.items()}

    return planted


def _short_array_beam(search_arrays):
    def planted(graph, scorer, queries, entries, entry_dists, ef, *rest):
        found = search_arrays(graph, scorer, queries, entries, entry_dists, ef - 1, *rest)
        return [np.pad(a, ((0, 0), (0, 1)), constant_values=pad) for a, pad in zip(found, (-1, np.inf))]

    return planted


#: One planted bug per row: ``(owner, attribute, wrap)`` substitutions,
#: each replacing the attribute by ``wrap(original)``.
BUGS = {
    "per_shard_budget-off-by-one": [
        (Broker, "per_shard_budget", lambda f: lambda self, k: f(self, k) - 1)
    ],
    "batch_top_k-tie-break-flip": [(merge_module, "batch_top_k", _flip_ties)],
    # Both fences down: nothing invalidates the name, no epoch keys it.
    "stale-cache-survives-redeploy": [
        (QueryResultCache, "invalidate", lambda f: lambda self, name: 0),
        (broker_module, "result_cache_key", lambda f: lambda *a, epoch=0, **kw: f(*a, **kw)),
    ],
    # Planted on the route the plan reads, so the plan drops segments.
    "Router.plan-drops-last-spill-segment": [
        (
            Router,
            "__init__",
            lambda f: lambda self, segmenter, sizes: f(
                self, _DropsLast(segmenter), sizes
            ),
        )
    ],
    # Asks every group every row: answers cannot tell, only the width check.
    "router-prunes-nothing": [
        (
            Router,
            "plan",
            lambda f: lambda self, queries: RoutingPlan(
                {shard: np.arange(len(queries)) for shard in range(self.num_shards)},
                np.full(len(queries), self.num_shards),
            ),
        )
    ],
    "segment-budget-sized-as-hash": [
        (
            LannsConfig,
            "per_shard_budget",
            lambda f: lambda self, k: per_shard_top_k(
                k, self.num_shards, self.topk_confidence
            ),
        )
    ],
    "rows@q-in-the-one-row-branch": [(scorer_module, "_gather_dot", _gemv_one_row)],
    "gemv-in-the-int8-query-bias": [(scorer_module._Int8View, "__init__", _gemv_bias)],
    # Planted where the searcher hands its cost to the wire, so the
    # process-wide metrics registry never holds one of the numpy ints.
    "numpy-int-in-SearchCost": [(server_module, "observed_search", _numpy_cost)],
    "routed-rows-scattered-backwards": [
        (
            fanout_module,
            "assemble",
            lambda f: lambda work, *rest: f(
                [w if w.rows is None else w._replace(rows=w.rows[::-1]) for w in work],
                *rest,
            ),
        )
    ],
    "failover-never-tried": [
        (fanout_module, "should_fail_over", lambda f: lambda exc, deadline: False)
    ],
    # A query's answer would hang on how many rows arrived with it.
    "array-venue-beam-one-short": [(hnsw_index, "search_arrays", _short_array_beam)],
    "shard-merge-keeps-the-first-probe": [
        (core_index, "merge_segment_results_batch", lambda f: lambda i, d, k: f(i[:, :k], d[:, :k], k))
    ],
    "broker-merge-drops-the-last-shard": [
        (broker_module, "merge_shard_results_batch", lambda f: lambda parts, k: f(parts[:-1], k))
    ],
    "searcher-server-drops-the-cost": [
        (server_module, "observed_search", lambda f: lambda *a: (*f(*a)[:2], None))
    ],
    "client-pool-lends-one-socket-twice": [
        (RemoteSearcherClient, "_checkout", lambda f: lambda self: self._pool[-1] if self._pool else f(self))
    ],
    "cache-key-folds-the-scale": [
        (broker_module, "result_cache_key", lambda f: lambda i, q, *a, **kw: f(i, q / (q @ q) ** 0.5, *a, **kw))
    ],
    "cache-keeps-float32-distances": [
        (QueryResultCache, "put", lambda f: lambda self, key, i, d, *a: f(self, key, i, np.float32(d), *a))
    ],
}


@pytest.mark.parametrize("bug", BUGS)
def test_the_matrix_kills(world, monkeypatch, bug):
    """The scorer cells, then the path cells, each on its fullest draw,
    until one fails."""
    for owner, name, wrap in BUGS[bug]:
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    try:
        for cell in SCORER_CELLS:
            for dim in (33, 64, 129):
                check_one_row_parity(*cell, dim, 77, False, 3)
        for cell in CELLS:
            check_cell(world, cell, lambda probe: probe(ALL_ROWS, 0))
    except (AssertionError, LannsError):
        return
    pytest.fail(f"every cell of the matrix passed with {bug} planted")
