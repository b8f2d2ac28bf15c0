"""Shared fixtures for the test suite.

Datasets are deliberately small (hundreds of points, <= 32 dims) so the
full suite stays fast; recall assertions use generous-but-meaningful
thresholds that a correct implementation passes with margin and a broken
one does not.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.hnsw.params import HnswParams
from repro.offline.brute_force import exact_top_k
from repro.online.searcher import SearcherNode
from repro.sparklite.cluster import LocalCluster
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index

#: Small HNSW parameters shared by tests that build indices.
FAST_HNSW = HnswParams(M=8, ef_construction=48, ef_search=48, seed=0)
#: The two-shard, two-segment deployment most serving tests run on.
LANNS_2X2 = LannsConfig(
    num_shards=2,
    num_segments=2,
    segmenter="rh",
    hnsw=FAST_HNSW,
    segmenter_sample_size=600,
    seed=11,
)
#: Where :func:`lanns_fs` holds the export of :func:`lanns`.
LANNS_PATH = "prod/lanns"


def make_clustered(
    n: int, dim: int, *, num_clusters: int = 8, seed: int = 0, scale: float = 4.0
) -> np.ndarray:
    """Clustered float32 data (locality for segmenters to exploit)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=scale, size=(num_clusters, dim))
    assignment = rng.integers(0, num_clusters, size=n)
    data = centers[assignment] + rng.normal(size=(n, dim))
    return data.astype(np.float32)


def make_lattice() -> np.ndarray:
    """The 3^6 points of ``{-1, 0, 1}^6`` plus 200 of them again, shuffled:
    integer coordinates and duplicated rows put an exact distance tie at
    every beam boundary."""
    points = np.array(
        list(itertools.product((-1.0, 0.0, 1.0), repeat=6)), dtype=np.float32
    )
    rng = np.random.default_rng(11)
    again = points[rng.choice(len(points), size=200, replace=False)]
    return rng.permutation(np.concatenate([points, again]))


def assert_same_payload(first: dict, second: dict) -> None:
    """Two ``HnswIndex.to_arrays()`` payloads, member for member: the
    same names, dtypes, shapes and bytes."""
    assert list(first) == list(second)
    for name in first:
        a, b = np.asarray(first[name]), np.asarray(second[name])
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def host_all(index, name: str = "main") -> list[SearcherNode]:
    """One in-process searcher per shard of ``index``, hosting it as ``name``."""
    nodes = [SearcherNode(shard.shard_id) for shard in index.shards]
    for node, shard in zip(nodes, index.shards):
        node.host(name, shard)
    return nodes


def wait_until(condition, timeout_s: float = 30.0) -> None:
    """Poll ``condition`` (state another thread is about to reach)."""
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def prepare_one(scorer, query) -> np.ndarray:
    """One canonicalised query: row 0 of a prepared batch of one."""
    return scorer.prepare_queries(np.asarray([query], dtype=np.float32))[0]


def score_one(scorer, query: np.ndarray, ids) -> np.ndarray:
    """Reduced distances from one *prepared* query to stored rows ``ids``:
    ``score_pairs`` with a batch of one."""
    ids = np.asarray(ids)
    return scorer.score_pairs(
        query[np.newaxis, :], np.zeros(len(ids), dtype=np.int64), ids
    )


def as_stack(problems: list[list[tuple[float, int]]]) -> tuple[np.ndarray, np.ndarray]:
    """``(dist, node)`` lists as the kernels' padded ``(ids, dists)``
    arrays: int64 / float32, ``-1`` / ``inf`` past a short row."""
    width = max(map(len, problems), default=0)
    ids = np.full((len(problems), width), -1, dtype=np.int64)
    dists = np.full((len(problems), width), np.inf, dtype=np.float32)
    for row, pairs in enumerate(problems):
        for column, (dist, node) in enumerate(pairs):
            ids[row, column], dists[row, column] = node, dist
    return ids, dists


def as_pairs(ids: np.ndarray, dists: np.ndarray) -> list[list[tuple[float, int]]]:
    """Inverse of :func:`as_stack`: each row's real slots, in column order."""
    return [
        [(dist, node) for dist, node in zip(dists_row, ids_row) if node >= 0]
        for ids_row, dists_row in zip(ids.tolist(), dists.tolist())
    ]


@pytest.fixture(scope="session")
def clustered_data() -> np.ndarray:
    """600 x 16 clustered base vectors."""
    return make_clustered(600, 16, seed=1)


@pytest.fixture(scope="session")
def clustered_queries(clustered_data) -> np.ndarray:
    """40 in-distribution queries for :func:`clustered_data`."""
    rng = np.random.default_rng(2)
    rows = rng.integers(0, clustered_data.shape[0], size=40)
    noise = rng.normal(scale=0.2, size=(40, clustered_data.shape[1]))
    return (clustered_data[rows] + noise).astype(np.float32)


@pytest.fixture(scope="session")
def clustered_truth(clustered_data, clustered_queries) -> np.ndarray:
    """Exact top-20 ids for the clustered fixture."""
    ids, _ = exact_top_k(clustered_data, clustered_queries, 20)
    return ids


@pytest.fixture(scope="session")
def lanns(clustered_data):
    """:data:`LANNS_2X2` over the clustered fixture, built once."""
    return build_lanns_index(clustered_data, config=LANNS_2X2)


@pytest.fixture(scope="session")
def lanns_fs(tmp_path_factory, lanns) -> LocalHdfs:
    """A filesystem holding :func:`lanns` exported at :data:`LANNS_PATH`."""
    fs = LocalHdfs(tmp_path_factory.mktemp("lanns"))
    save_lanns_index(lanns, fs, LANNS_PATH)
    return fs


@pytest.fixture
def fs(tmp_path) -> LocalHdfs:
    """A fresh LocalHdfs rooted in the test's tmp dir."""
    return LocalHdfs(tmp_path / "hdfs")


@pytest.fixture
def cluster(fs) -> LocalCluster:
    """A 4-executor inline cluster with the tmp filesystem attached."""
    return LocalCluster(num_executors=4, fs=fs)


@pytest.fixture(scope="session", autouse=True)
def _concurrency_sanitizer():
    """Run the whole suite under the concurrency sanitizer.

    Enabled by ``REPRO_SANITIZE=1``: every lock created during the run
    is tracked, lock-order inversions and blocking calls made while
    holding a lock are recorded, and the session fails at teardown if
    anything was found — the stress/property tests double as race
    tests.  Off by default (zero overhead).
    """
    if os.environ.get("REPRO_SANITIZE") != "1":
        yield
        return
    from repro.analysis import sanitizer

    sanitizer.install()
    sanitizer.reset()
    yield
    found = sanitizer.violations()
    assert not found, (
        f"concurrency sanitizer recorded {len(found)} violation(s):\n"
        + sanitizer.format_violations()
    )
